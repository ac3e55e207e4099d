"""``python -m repro.cli``."""

from . import main

if __name__ == "__main__":  # spawn-context workers re-import this file
    raise SystemExit(main())
