"""The repo's benchmark: five traffic workloads through the default engine.

Run ``python bench/run.py``; see ``bench/README.md``.
"""
