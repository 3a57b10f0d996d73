"""`python -m polyclone ...` runs the `polyclone` command line."""

import sys

from .cli import main

sys.exit(main())
