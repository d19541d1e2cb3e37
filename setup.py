"""Package metadata for the QSPR reproduction.

``pip install .`` installs the ``repro`` package from ``src/`` and the
``qspr-map`` console script.  The project is pure Python with no runtime
dependencies; ``pytest`` and ``hypothesis`` (and ``pytest-benchmark`` for
``benchmarks/``) are only needed to run the test suite.
"""

from __future__ import annotations

import re
from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).parent


def _version() -> str:
    text = (_HERE / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="qspr-repro",
    version=_version(),
    description=(
        "Reproduction of Dousti & Pedram (DATE 2012): latency-minimising "
        "mapping of quantum circuits onto ion-trap circuit fabrics"
    ),
    long_description=(_HERE / "README.md").read_text(),
    long_description_content_type="text/markdown",
    author="QSPR reproduction contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.workloads": ["suite/*.qasm"]},
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "qspr-map = repro.cli:main",
        ]
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Physics",
    ],
)
