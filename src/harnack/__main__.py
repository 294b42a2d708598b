"""``python -m harnack``: the ``harnack`` command, runnable from a checkout."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
