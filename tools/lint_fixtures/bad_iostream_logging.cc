// ANALYZE-AS: src/subsim/util/example_report.cc
// Fixture: console output outside util/logging must be flagged. Never
// compiled — checked only by subsim_analyze.py --self-test.
#include <iostream>  // ANALYZE-EXPECT: iostream-logging
#include <cstdio>

void Report(int n) {
  std::cout << n << "\n";  // ANALYZE-EXPECT: iostream-logging
  std::cerr << "warning" << "\n";  // ANALYZE-EXPECT: iostream-logging
  printf("%d\n", n);  // ANALYZE-EXPECT: iostream-logging
  std::fprintf(stderr, "%d\n", n);  // ANALYZE-EXPECT: iostream-logging
  fputs("done\n", stderr);  // ANALYZE-EXPECT: iostream-logging
}

// Formatting into a buffer is not logging; snprintf stays legal.
void Format(char* buf, unsigned long size, int n);
