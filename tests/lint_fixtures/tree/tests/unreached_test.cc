// A test is the only includer of util/unreached_bad.h; a test alone does
// not make a module reached.
#include "util/unreached_bad.h"

int CheckUnreached() { return UnreachedAnswer(); }
