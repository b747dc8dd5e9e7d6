"""`python -m latticediam`: the same command line as the `latticediam` script."""

from .cli import main

if __name__ == "__main__":
    main()
