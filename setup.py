"""Setuptools shim: all metadata lives in pyproject.toml.

Kept so that `python setup.py develop` works on hosts whose setuptools
cannot build an editable wheel.
"""

from setuptools import setup

setup()
