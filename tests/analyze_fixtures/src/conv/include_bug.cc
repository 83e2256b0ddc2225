// mc_analyze mutation fixture: include hygiene. A non-standard
// catch-all header and a project include that is not a
// src/-relative path.

#include <bits/stdc++.h>

#include "guard_clean.hh"

namespace fixture {

int
includeBug()
{
    return 0;
}

} // namespace fixture
