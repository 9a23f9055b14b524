"""``python -m gracelab``: the same command line as the ``gracelab`` script."""

from gracelab.cli import main

if __name__ == "__main__":
    main()
