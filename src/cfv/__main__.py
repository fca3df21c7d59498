"""`python -m cfv`: the `cfv` command line (see cfv.cli)."""

import sys

from cfv.cli import main

if __name__ == "__main__":
    sys.exit(main())
