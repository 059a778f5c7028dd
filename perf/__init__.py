"""The repo's benchmark: fixed-work workloads over real HTTP (see README.md)."""
