"""End-to-end benchmark of the simulator (see README.md in this directory)."""
