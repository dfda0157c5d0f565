// NOLINT(dpaudit-unreached-module): a module kept for downstream users
// Included from nowhere, like unreached_bad.h, but kept on purpose: the
// escape on the first line names dpaudit-unreached-module and says why.
#pragma once

int KeptAnswer();
