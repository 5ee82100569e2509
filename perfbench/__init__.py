"""The repository benchmark; run it with perfbench/run.py."""
