"""End-to-end and per-layer benchmark of autohuber; run ``python3 perfbench/run.py``."""
