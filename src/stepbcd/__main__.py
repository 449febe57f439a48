"""``python -m stepbcd``: the ``stepbcd`` command line, ``cli.main``."""

import sys

from .cli import main

sys.exit(main())
