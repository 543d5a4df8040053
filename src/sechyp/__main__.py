"""``python -m sechyp``: the same command-line interface as ``sechyp``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
