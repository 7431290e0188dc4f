"""End-to-end benchmark of the reproduction library (see ``run.py``)."""
