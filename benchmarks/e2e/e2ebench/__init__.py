"""Harness of the end-to-end benchmark (see ``benchmarks/e2e/README.md``)."""
