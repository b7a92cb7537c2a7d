"""Fixed-work benchmark for boolcomb; see README.md."""
