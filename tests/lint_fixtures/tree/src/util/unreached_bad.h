// NOLINT(dpaudit-unreached-module)
// Only a test includes this header, so no binary reaches it: flagged by
// dpaudit-unreached-module. The NOLINT above names the rule but states no
// reason, and this rule yields only to a reasoned escape.
#pragma once

int UnreachedAnswer();
