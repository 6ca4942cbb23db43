"""`python -m lineargames`: the same as the `lineargames` command."""

from .cli import main

if __name__ == "__main__":
    main()
