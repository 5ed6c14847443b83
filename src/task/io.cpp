#include "task/io.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace reconf::io {

namespace {

[[noreturn]] void parse_error(int line, const std::string& what) {
  throw std::runtime_error("taskset parse error at line " +
                           std::to_string(line) + ": " + what);
}

}  // namespace

Task make_task_checked(const std::string& name, long long wcet,
                       long long deadline, long long period, long long area,
                       const std::string& context) {
  if (wcet <= 0 || deadline <= 0 || period <= 0 || area <= 0) {
    throw std::runtime_error(context + ": task parameters must be positive");
  }
  if (const char* why = task_domain_error(wcet, deadline, period, area)) {
    throw std::runtime_error(context + ": " + why);
  }
  Task t;
  t.name = name == "-" ? std::string{} : name;
  t.wcet = wcet;
  t.deadline = deadline;
  t.period = period;
  t.area = static_cast<Area>(area);
  return t;
}

void write_taskset(std::ostream& os, const TaskSet& ts, Device device) {
  os << "taskset v1\n";
  os << "device " << device.width << "\n";
  for (const Task& t : ts) {
    os << "task " << (t.name.empty() ? "-" : t.name) << ' ' << t.wcet << ' '
       << t.deadline << ' ' << t.period << ' ' << t.area << "\n";
  }
}

std::string to_string(const TaskSet& ts, Device device) {
  std::ostringstream os;
  write_taskset(os, ts, device);
  return os.str();
}

ParsedTaskSet read_taskset(std::istream& is) {
  std::string line;
  int line_no = 0;
  bool saw_header = false;
  Device device{0};
  std::vector<Task> tasks;

  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;

    if (word == "taskset") {
      std::string version;
      if (!(ls >> version) || version != "v1") {
        parse_error(line_no, "expected 'taskset v1'");
      }
      saw_header = true;
    } else if (word == "device") {
      long long width = 0;
      if (!(ls >> width) || width <= 0) {
        parse_error(line_no, "expected 'device <positive width>'");
      }
      if (const char* why = width_domain_error(width)) {
        parse_error(line_no, why);
      }
      device.width = static_cast<Area>(width);
    } else if (word == "task") {
      Task t;
      std::string name;
      long long c = 0;
      long long d = 0;
      long long p = 0;
      long long area = 0;
      if (!(ls >> name >> c >> d >> p >> area)) {
        parse_error(line_no, "expected 'task <name> <C> <D> <T> <A>'");
      }
      try {
        t = make_task_checked(name, c, d, p, area,
                              "line " + std::to_string(line_no));
      } catch (const std::exception& e) {
        throw std::runtime_error(std::string("taskset parse error at ") +
                                 e.what());
      }
      tasks.push_back(std::move(t));
    } else {
      parse_error(line_no, "unknown directive '" + word + "'");
    }
  }

  if (!saw_header) parse_error(line_no, "missing 'taskset v1' header");
  if (!device.valid()) parse_error(line_no, "missing 'device' line");
  return ParsedTaskSet{TaskSet(std::move(tasks)), device};
}

ParsedTaskSet from_string(const std::string& text) {
  std::istringstream is(text);
  return read_taskset(is);
}

std::string format_table(const TaskSet& ts, Device device, Ticks scale) {
  std::ostringstream os;
  os << "device width A(H) = " << device.width << "\n";
  os << std::left << std::setw(8) << "task" << std::right << std::setw(10)
     << "C" << std::setw(10) << "D" << std::setw(10) << "T" << std::setw(6)
     << "A" << std::setw(10) << "u=C/T" << std::setw(12) << "us=A*C/T"
     << "\n";
  os << std::fixed;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Task& t = ts[i];
    os << std::left << std::setw(8)
       << (t.name.empty() ? "tau" + std::to_string(i + 1) : t.name)
       << std::right << std::setprecision(2) << std::setw(10)
       << units_from_ticks(t.wcet, scale) << std::setw(10)
       << units_from_ticks(t.deadline, scale) << std::setw(10)
       << units_from_ticks(t.period, scale) << std::setw(6) << t.area
       << std::setprecision(3) << std::setw(10) << t.time_utilization()
       << std::setw(12) << t.system_utilization() << "\n";
  }
  os << std::setprecision(3) << "U_T = " << ts.time_utilization()
     << ", U_S = " << ts.system_utilization() << ", A_max = " << ts.max_area()
     << ", A_min = " << ts.min_area() << "\n";
  return os.str();
}

}  // namespace reconf::io
