"""Packaging metadata for the ``repro`` distribution.

The offline environment ships setuptools without the ``wheel`` package,
so PEP 660 editable installs cannot build an editable wheel; keeping all
metadata in ``setup.py`` (no pyproject build backend) lets pip fall back
to the legacy ``setup.py develop`` path (``pip install -e .
--no-build-isolation``) while still producing a fully-described, *typed*
package: ``src/repro/py.typed`` is shipped as package data (PEP 561), so
downstream consumers' type checkers read the inline annotations instead
of treating the library as ``Any``.

The version is sourced from ``repro.__version__`` (single source of
truth) by reading the attribute assignment out of ``src/repro/
__init__.py`` without importing it — importing would require numpy at
metadata time.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_ROOT = Path(__file__).resolve().parent


def _version() -> str:
    text = (_ROOT / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"$', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("repro.__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-cluster-model",
    version=_version(),
    description=(
        "Analytical network model of heterogeneous large-scale cluster "
        "systems (Javadi, Abawajy & Akbari, IEEE CLUSTER 2006) with "
        "validating wormhole simulators and experiment infrastructure"
    ),
    long_description=(_ROOT / "README.md").read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    author="repro maintainers",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "dev": ["pytest", "hypothesis", "networkx", "scipy", "mypy"],
    },
    zip_safe=False,  # py.typed must stay a real file for type checkers
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Topic :: Scientific/Engineering",
        "Typing :: Typed",
    ],
)
