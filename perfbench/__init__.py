"""Benchmark of sensefuse: workloads, output checks and span tracing."""
