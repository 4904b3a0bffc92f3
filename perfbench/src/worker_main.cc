// Worker binary for the process-pool dispatch backend; perfbench points
// EvaluatorOptions::worker_binary at it.

#include "worker/worker_main.h"

int main(int argc, char** argv) { return volcanoml::RunWorkerMain(argc, argv); }
