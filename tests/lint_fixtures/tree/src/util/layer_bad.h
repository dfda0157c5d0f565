// NOLINT(dpaudit-unreached-module): isolates the layering finding
// util is the bottom layer; reaching up into obs violates the matrix in
// ../layers.txt (util has no allow line at all).
#pragma once

#include "obs/metrics.h"

MetricsCounter* GlobalCounter();
