"""Exploitative no-limit hold'em engine and table laboratory.

The package root exports nothing: import the module you use, as in
`from holdemlab.session import run_fastfold_session`.
"""
