"""Fixed-seed benchmark for the LANNS reproduction (see ../README.md)."""
