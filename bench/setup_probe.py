"""Set-up probe: a fresh interpreter imports ``gausep.cli`` and loads and
validates every config of a workload.

Usage: ``python3 bench/setup_probe.py SRC_DIR LISTING_JSON``, where the
listing is a JSON list of ``[schema, path]`` pairs and ``schema`` is ``run``
or ``sweep``.  ``run.py`` times the whole process from outside, so the
figure includes interpreter start-up and the import.
"""

import json
import sys


def main() -> int:
    src, listing = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import gausep.cli as cli
    from gausep.generators import model_from_dict

    # load_config is the CLI's reader and schema check; the schemas are the
    # ones the subcommands pass to it
    schemas = {"run": cli._RUN_SCHEMA, "sweep": cli._SWEEP_SCHEMA}
    with open(listing) as stream:
        configs = json.load(stream)
    for schema, path in configs:
        model_from_dict(cli.load_config(path, schemas[schema])["model"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
