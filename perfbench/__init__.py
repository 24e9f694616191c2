"""Benchmark of the Λnum reproduction: workloads, layer timer and checks (see README.md)."""
