"""Internal utilities shared across the :mod:`repro` package.

Nothing in here is part of the public API; the public surface is exported
from :mod:`repro` and its documented subpackages.  Import from the
submodules (``floats``, ``stats``, ``tables``, ``validation``, ...): the
package itself re-exports nothing, so loading one helper does not load
NumPy for :mod:`repro._util.stats`.
"""
