"""`python -m partmax`: the same command line as the `partmax` script."""

import sys

from .cli import main

sys.exit(main())
