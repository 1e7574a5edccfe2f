"""Shared pytest hooks."""

from markovsgd.algorithms import kernel_info


def pytest_report_header(config):
    info = kernel_info()
    # the path samplers run in C whenever the library loads; the update loop
    # also needs the BLAS ddot check to pass
    sampling = "numpy" if info["cache"] is None else "c"
    return (
        f"markovsgd update loop: {info['path']}, finite walk and AR filter: {sampling}, "
        f"seeded streams: {info['streams']}, lanes per register: {info['lanes']} (library: {info['cache']})"
    )
