"""Shared pytest hooks."""

from markovsgd.algorithms import kernel_info


def pytest_report_header(config):
    info = kernel_info()
    return f"markovsgd update loop: {info['path']} (library: {info['cache']})"
