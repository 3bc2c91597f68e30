"""`python -m stringflow ...` runs the command-line interface (cli.main)."""

from .cli import main

raise SystemExit(main())
