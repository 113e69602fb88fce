"""Run the command line as ``python -m cdhg build|analyze|census ...``."""

from .cli import main

raise SystemExit(main())
