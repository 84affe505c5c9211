"""`python -m germgrain`: the germgrain command line."""
from .cli import main

raise SystemExit(main())
