"""Texts over the library domain (``repro.workload.library``), shared by
the ``ic-matrix`` and ``corpus`` workloads.

Both front ends read their inputs as text, the way the CLI does: the
schema in the ``label := model`` format of ``Schema.parse_text``, FDs
in the linear syntax of ``LinearFD.parse``, update classes as XPath.
"""

#: ``repro.workload.library.library_schema`` in the CLI's schema format
LIBRARY_SCHEMA = """\
!document library
library       := book* publisher*
book          := @isbn title author+ publisher-ref price? review*
title         := #text
author        := #text
publisher-ref := #text
price         := #text
review        := grade cites*
grade         := #text
cites         := #text
publisher     := @name city
city          := #text
"""

#: paths below ``/library/book`` and ``/library/publisher`` an FD may use
BOOK_PATHS = (
    "@isbn", "title", "author", "publisher-ref", "price",
    "review/grade", "review/cites",
)
PUBLISHER_PATHS = ("@name", "city")

#: the generator's violators break this FD (``violate_title``)
ISBN_TITLE = "(/library, ((book/@isbn) -> book/title))"
PUBLISHER_CITY = "(/library, ((publisher/@name) -> publisher/city))"
