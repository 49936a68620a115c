"""Holds only :func:`.recorder.git_sha`, which ``bench/run.py`` imports.

The benchmark in ``bench/`` is the repo's one measurement instrument.
"""
