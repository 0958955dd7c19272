"""OpenBLAS on one thread for a block of code.

NumPy's OpenBLAS runs a large enough product on one thread per CPU, and its
threads spin for a while after each product. Inside the program's own thread
pools those threads only compete with the pool's threads for the same CPUs:
``analyze --workers 2`` ran 25% slower than one worker until its pool ran
BLAS on one thread. ``serial_blas`` scopes that setting to the block that
owns a pool; everywhere else, NumPy's eval products keep every BLAS thread.
"""

import contextlib
import functools
import re


@functools.cache
def _controls():
    """(get, set) of the thread count of the OpenBLAS that NumPy loaded, or
    None where no OpenBLAS is mapped into the process (another BLAS, or an
    OS without ``/proc/self/maps``). Looked up once, on first use."""
    import ctypes

    import numpy  # noqa: F401 - maps the library NumPy links

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextlib.contextmanager
def serial_blas():
    """Run the block with OpenBLAS on one thread and restore the previous
    thread count on exit, exceptions included; without OpenBLAS the block
    runs unchanged. The count is process-wide, so enter this from the one
    thread that starts and joins the pool, not from the pool's threads."""
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
