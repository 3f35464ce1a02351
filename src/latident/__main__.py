"""Command-line entry point: `python -m latident <command> <file> [options]`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
