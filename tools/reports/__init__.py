"""One module per tepic report kind, driven by tools/tepic_reports.py.

Every module exports the same small interface; the shared plumbing
(loading, exit codes, --compare, the CLI) lives in tepic_reports:

  SCHEMA                 the schema id the module validates
  validate(path, doc)    schema checks (exit 2), then the kind's
                         invariants (exit 1); may return notes
  summary(doc)           the one-line summary printed after "ok"
  comparable(doc)        the projection --compare requires to be
                         identical across --jobs (None: no contract)
  render_md(path, doc)   optional Markdown report (--md)
  render_svg(doc)        optional figure (--svg)
"""
