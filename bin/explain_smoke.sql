create table emp (name string, emp_no int primary key, salary float);
create table audit_log (name string, salary float);
create index emp_no_ix on emp (emp_no);
create index emp_salary_ix on emp (salary) using ordered;
insert into emp values ('ada', 1, 100.0), ('bob', 2, 200.0), ('cyd', 3, 300.0);
explain select * from emp where emp_no = 2;
explain select name from emp where salary = 200.0;
explain delete from emp where emp_no in (1, 2);
explain update emp set salary = salary + 1.0 where name = 'ada';
explain insert into audit_log values ('x', 0.0);
create rule audit
when deleted from emp
if exists (select * from deleted emp where salary > 100.0)
then insert into audit_log select name, salary from deleted emp;;
explain rule audit;
explain rule uq_emp_emp_no;
.stats emp
.stats audit_log
.stats missing
explain select name from emp where salary between 100.0 and 250.0;
explain select name from emp where salary > 250.0;
explain select * from emp e, audit_log a where e.name = a.name;
insert into audit_log values ('ada', 1.0), ('bob', 2.0);
select e.name, a.salary from emp e, audit_log a where e.name = a.name order by e.name;
.stats
.trace on
delete from emp where emp_no = 3;
.trace
.trace dump -
.report
select name from emp order by emp_no;
create table badge (emp_no int, floor int);
create index badge_no_ix on badge (emp_no);
insert into badge values (1, 1), (2, 2), (3, 3), (4, 0), (5, 1), (6, 2), (7, 3), (8, 0), (9, 1), (10, 2), (11, 3), (12, 0), (13, 1), (14, 2), (15, 3), (16, 0);
explain select floor from badge where emp_no in (3, 7);
.q
