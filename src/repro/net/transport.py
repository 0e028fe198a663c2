"""Empty on purpose: the ``Transport`` ABC that lived here had no
implementer and no caller.  The file stays only because ``bench/layers.py``
names it in ``MODULE_SLICES`` (its self-check fails on a row matching no
file) and ``bench/`` is frozen; delete it together with that row.
"""
