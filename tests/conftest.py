"""Suite-wide setup: in-process library tests compute under the same
numerics as the CLI, which pins BLAS to one thread at entry."""

from repro.fl.execution import pin_blas_threads

pin_blas_threads()
