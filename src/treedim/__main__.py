"""``python -m treedim`` runs the command line, as the ``treedim`` script does."""

from .iface import main

if __name__ == "__main__":
    main()
