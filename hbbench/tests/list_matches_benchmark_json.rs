//! `--list` and `BENCHMARK.json` must name the same workloads and metrics,
//! with the same units, directions and bounds.

use std::process::Command;

/// The flat `{...}` objects of the array under `"key"`, in order.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let open = at + json[at..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split('{')
        .skip(1)
        .map(|obj| obj.split('}').next().expect("object end"))
        .collect()
}

/// The value of `"field"` in a flat object, unquoted.
fn field(object: &str, name: &str) -> Option<String> {
    let at = object.find(&format!("\"{name}\""))?;
    let rest = object[at + name.len() + 2..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start();
    Some(if let Some(quoted) = rest.strip_prefix('"') {
        quoted[..quoted.find('"')?].to_string()
    } else {
        rest.split([',', '}']).next()?.trim().to_string()
    })
}

#[test]
fn list_and_benchmark_json_agree() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let listed = Command::new(env!("CARGO_BIN_EXE_hb-perfbench"))
        .arg("--list")
        .output()
        .expect("run --list");
    assert!(listed.status.success());
    let listed = String::from_utf8(listed.stdout).expect("utf-8");
    let rows: Vec<Vec<&str>> = listed
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();

    let workloads: Vec<String> = objects(&json, "workloads")
        .iter()
        .map(|o| field(o, "name").expect("workload name"))
        .collect();
    let listed_workloads: Vec<String> = rows
        .iter()
        .filter(|r| r[0] == "workload")
        .map(|r| r[1].to_string())
        .collect();
    assert_eq!(workloads, listed_workloads);

    for table in ["end_to_end", "per_layer"] {
        let from_json: Vec<Vec<String>> = objects(&json, table)
            .iter()
            .map(|o| {
                let mut row = vec![
                    field(o, "name").expect("name"),
                    field(o, "unit").expect("unit"),
                    field(o, "better").expect("better"),
                ];
                if let Some(bound) = field(o, "bound") {
                    row.push("bound".into());
                    row.push(bound.parse::<f64>().expect("numeric bound").to_string());
                }
                row
            })
            .collect();
        let from_list: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r[0] == table)
            .map(|r| r[1..].iter().map(|s| s.to_string()).collect())
            .collect();
        assert_eq!(from_json, from_list, "{table} differs");
    }
}
