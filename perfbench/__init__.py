"""The repository benchmark: one command per workload and seed (see README.md)."""
