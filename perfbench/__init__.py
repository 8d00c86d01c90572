"""Lakehouse maintenance benchmark (see README.md)."""
