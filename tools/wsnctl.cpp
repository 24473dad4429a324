// wsnctl — the single driver binary behind every registered scenario.
//
//   wsnctl list
//   wsnctl help table4
//   wsnctl run table4 --points=21 --threads=8 --format=json
#include "scenario/run_main.hpp"

int main(int argc, char** argv) {
  return wsn::scenario::WsnctlMain(argc, argv);
}
