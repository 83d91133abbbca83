"""Repository benchmark: workloads, tracing and the stage ledger (see README.md)."""
