"""``python -m sqztune``: the command-line interface of :mod:`sqztune.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
