"""`python -m lorenzlab`: the same command line as the `lorenzlab` script."""

from .cli import run

run()
