"""python -m rebalance runs the rebalance command line (rebalance.cli)."""

from .cli import main

raise SystemExit(main())
