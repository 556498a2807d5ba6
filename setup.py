"""Setuptools shim.

The primary project metadata lives in ``pyproject.toml``; this file exists so
that ``pip install -e .`` works in offline environments whose setuptools/pip
combination cannot build PEP 660 editable wheels (no ``wheel`` package
available).  ``pip install -e . --no-build-isolation --no-use-pep517`` falls
back to the classic ``setup.py develop`` path through this shim.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "TimeCrypt reproduction: encrypted time series data store with "
        "cryptographic access control"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["cryptography"],
)
