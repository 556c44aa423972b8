"""Benchmark for baroflow: see README.md in this directory."""
