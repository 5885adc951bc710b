"""Setuptools entry point: the package's only build configuration (there is
no pyproject.toml).

Nothing needs installing to run the code: the Makefile, the tests and the
examples use the in-tree sources with ``PYTHONPATH=src``.  ``pip install
-e .`` makes ``repro`` importable without that; where setuptools cannot
build PEP 660 editable wheels (no ``wheel`` package available, as in
offline environments), pip falls back to the legacy ``setup.py develop``
path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Analyzing and Mitigating Data Stalls in DNN "
        "Training' (CoorDL + DS-Analyzer, VLDB 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
