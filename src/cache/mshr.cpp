#include "cache/mshr.hpp"

#include "common/require.hpp"

namespace tdn::cache {

MshrFile::Fills MshrFile::complete(Addr line_addr) {
  Entry* e = find(line_addr);
  TDN_REQUIRE(e != nullptr && line_addr != kFree,
              "completing a miss that is not in flight");
  e->line = kFree;
  --outstanding_;
  return fills_.drain(e->fills);
}

}  // namespace tdn::cache
