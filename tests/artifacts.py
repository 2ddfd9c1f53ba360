"""The committed files and the ``chipsplit`` commands that write them.

Each committed artifact is the standard output of one command. This
table is the one list of them: the Tier-1 suite and CI's click-only
step read it, and a test holds README's regeneration block equal to
it. ``tier1`` marks the files that the Tier-1 suite rebuilds through
the CLI, each in under a second. The other two take seconds (the wide
census) and tens of seconds (the width-5 sweep), so only CI rebuilds
them through the CLI; Tier-1 rebuilds them in process.

The module imports neither pytest nor the package. Run as a script,
it prints one line per file, the path and then the arguments, which
CI's click-only step reads in a shell loop.
"""

from typing import NamedTuple


class Artifact(NamedTuple):
    path: str
    args: str
    tier1: bool


ARTIFACTS = (
    Artifact("results/census-n2-d3.json", "enumerate --max-degree 3 --max-support 3 --json", True),
    Artifact("tests/golden/census-n4-d7.json", "enumerate --max-degree 7 --max-support 5 --json", True),
    Artifact("tests/golden/census-n5-d9.json", "enumerate --max-degree 9 --json", False),
    Artifact("results/sweep-4-d11.json", "sweep --support 4 --max-degree 11 --summary", True),
    Artifact("results/sweep-5-d41.json", "sweep --support 5 --max-degree 41 --summary", False),
    Artifact("results/pipeline.json", "pipeline --json", True),
)


if __name__ == "__main__":
    for artifact in ARTIFACTS:
        print(artifact.path, artifact.args)
