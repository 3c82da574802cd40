#include "common/sweep.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace rapid {

namespace {

/** The --threads N value; 0 = RAPID_THREADS env / hardware default. */
unsigned
parseThreads(const std::string &figure, int argc, char **argv)
{
    unsigned threads = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string v;
        if (arg.rfind("--threads=", 0) == 0)
            v = arg.substr(std::string("--threads=").size());
        else if (arg == "--threads" && i + 1 < argc)
            v = argv[++i];
        else if (arg == "--threads")
            rapid_fatal(figure, ": --threads requires a value");
        else
            rapid_fatal(figure, ": unknown argument '", arg,
                        "' (supported: --threads N)");
        const long n = std::strtol(v.c_str(), nullptr, 10);
        if (n < 1 || n > 1024)
            rapid_fatal(figure, ": bad --threads value '", v,
                        "' (expected 1..1024)");
        threads = unsigned(n);
    }
    return threads;
}

} // namespace

int
sweepMain(const std::string &figure, int argc, char **argv,
          const std::function<void()> &body)
{
    ThreadPool::setDefaultThreads(parseThreads(figure, argc, argv));
    const unsigned threads = ThreadPool::global().numThreads();

    const auto start = std::chrono::steady_clock::now();
    body();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;

    std::ostringstream record;
    record << "{\"figure\":\"" << figure << "\",\"threads\":" << threads
           << ",\"wall_seconds\":" << wall.count() << "}";
    sweepRecord("sweeps", record.str());
    return 0;
}

void
sweepRecord(const std::string &report, const std::string &json)
{
    const char *path = std::getenv("RAPID_REPORT_JSON");
    if (path == nullptr || *path == '\0')
        return;
    rapid_assert(json.size() > 2 && json.front() == '{' &&
                     json.back() == '}',
                 "report record is not a JSON object: ", json);
    std::ofstream out(path, std::ios::app);
    out << "{\"report\":\"" << report << "\"," << json.substr(1) << "\n";
    out.flush();
    if (!out)
        rapid_fatal("cannot append a '", report,
                    "' record to RAPID_REPORT_JSON=", path);
}

} // namespace rapid
