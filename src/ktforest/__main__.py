"""`python -m ktforest`: the command-line interface of `ktforest.cli`."""

import sys

from .cli import main

sys.exit(main())
