// hot.hpp — umbrella header for the Hashed Oct-Tree library, the paper's
// primary contribution. See DESIGN.md for the module map.
#pragma once

#include "hot/bodies.hpp"                 // IWYU pragma: export
#include "hot/decompose.hpp"              // IWYU pragma: export
#include "hot/key_hash_table.hpp"         // IWYU pragma: export
#include "hot/let.hpp"                    // IWYU pragma: export
#include "hot/mac.hpp"                    // IWYU pragma: export
#include "hot/traverse.hpp"               // IWYU pragma: export
#include "hot/tree.hpp"                   // IWYU pragma: export
