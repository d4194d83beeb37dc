"""``python -m powergame``: the command-line experiment runner."""

import sys

from .cli import main

sys.exit(main())
